#include <stdio.h>

int d = 2;
int b = 4;

int main(void) {
    if (d) {
        printf("%d", d);
    }
    return 0;
}
