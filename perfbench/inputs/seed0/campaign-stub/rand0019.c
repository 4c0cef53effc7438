#include <stdio.h>

int a = 6;

int main(void) {
    int c = 4;
    int d;
    d = 9;
    a = 1;
    {
        int b = 6;
        printf("%d\n", b);
    }
    return 0;
}
