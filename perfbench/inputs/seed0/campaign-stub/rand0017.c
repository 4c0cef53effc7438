#include <stdio.h>

int c = 0;
int b = 6;

int main(void) {
    printf("%d\n", c);
    c = c;
    return c;
}
